//! # PathEnum — real-time hop-constrained s-t path enumeration
//!
//! Reproduction of *"PathEnum: Towards Real-Time Hop-Constrained s-t Path
//! Enumeration"* (SIGMOD 2021). Given a directed graph `G`, distinct
//! vertices `s, t` and a hop constraint `k`, PathEnum enumerates every
//! simple path from `s` to `t` with at most `k` edges:
//!
//! 1. a query-dependent **light-weight index** ([`index::Index`],
//!    Algorithm 3) is built in `O(|E| + |V|)` from the boundary distances
//!    `S(s, v | G−{t})` and `S(v, t | G−{s})`;
//! 2. a **preliminary estimator** ([`estimator::preliminary_estimate`],
//!    Equation 5) sizes the search space in `O(k^2)`;
//! 3. small queries run **IDX-DFS** ([`enumerate::idx_dfs`], Algorithm 4)
//!    directly; large ones invoke the **full-fledged estimator**
//!    ([`estimator::FullEstimate`], Equations 6–7) and the join-order
//!    optimizer ([`optimizer::optimize_join_order`], Algorithm 5), which
//!    may select **IDX-JOIN** ([`enumerate::idx_join`], Algorithm 6).
//!    "Small" is judged per request, on the search space its `limit`
//!    lets it read ([`optimizer::decide`]).
//!
//! The paper's Appendix E constraint extensions (edge predicates,
//! accumulative values, action-sequence automata) live in [`constraints`]
//! and attach to requests as first-class options.
//!
//! Each query runs on one thread, as in the paper; many queries are
//! served concurrently from many threads through the [`catalog`] layer
//! ([`CatalogService`]):
//! one or many named graphs, per-tenant caches, graphs republished
//! mid-traffic, and overload shed by modeled cost through its
//! [`admission`] policies. Each cache layer is one type,
//! [`Sharded`] over its key and entry ([`PlanCache`], [`ResultCache`]):
//! a [`QueryEngine`] owns one shard of each, a catalog tenant N.
//!
//! # Serving queries
//!
//! Services talk to the engine through the [`request`] layer: build a
//! [`QueryRequest`], execute it (or [`stream`](QueryEngine::stream) it),
//! and inspect the [`Termination`] reason — "at most 1000 paths within
//! 50 ms" is one chained expression, and malformed requests come back as
//! a [`PathEnumError`] instead of a panic:
//!
//! ```
//! use std::time::Duration;
//! use pathenum::{PathEnumConfig, QueryEngine, QueryRequest};
//! use pathenum_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edges([(0, 1), (1, 3), (0, 2), (2, 3), (1, 2)]).unwrap();
//! let graph = b.finish();
//!
//! let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
//! let request = QueryRequest::paths(0, 3)
//!     .max_hops(3)
//!     .limit(1000)
//!     .time_budget(Duration::from_millis(50));
//! let response = engine.execute(&request).unwrap();
//! assert_eq!(response.num_results(), 3); // 0-1-3, 0-2-3, 0-1-2-3
//! assert!(!response.termination.is_early());
//! ```
//!
//! Every evaluation goes through a [`QueryRequest`]: on one thread
//! through [`QueryEngine`], concurrently through [`CatalogService`].
//! The optimizer picks IDX-DFS or IDX-JOIN per request; a request forces
//! one with [`QueryRequest::method`], as the paper's IDX-DFS and IDX-JOIN
//! table rows do.

pub mod admission;
pub mod bits;
pub mod catalog;
pub mod constraints;
pub mod dynamic;
pub mod engine;
pub mod enumerate;
pub mod estimator;
pub mod index;
pub mod optimizer;
pub(crate) mod pipeline;
pub mod plan;
pub mod query;
pub mod reference;
pub mod relations;
pub mod request;
pub mod results;
pub mod sharded;
pub mod sink;
pub mod spectrum;
pub mod stats;
pub(crate) mod sync;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionStats, Lane,
};
pub use bits::{CompactBits, DenseBits};
pub use catalog::{
    CatalogConfig, CatalogOutcome, CatalogRequest, CatalogService, CatalogTicket, GraphCatalog,
};
pub use dynamic::DynamicEngine;
pub use engine::QueryEngine;
pub use index::Index;
pub use optimizer::{
    decide, optimize_join_order, Basis, Decision, JoinPlan, PathEnumConfig, PlanEstimates,
};
pub use plan::{CacheOutcome, ConstraintKind, Executor, PhysicalPlan, PlanCache, PlanKey};
pub use query::Query;
pub use request::{
    CancelToken, ControlledSink, PathEnumError, PathStream, QueryRequest, QueryResponse,
    Termination,
};
pub use results::{ResultCache, DEFAULT_RESULT_CACHE_BYTES};
pub use sharded::{CacheStats, Sharded};
pub use sink::{CollectingSink, CountingSink, PathBuffer, PathSink, SearchControl};
pub use stats::{Counters, Method, PhaseTimings, RunReport};
