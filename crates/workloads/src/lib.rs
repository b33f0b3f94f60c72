//! Workload layer for the PathEnum reproduction.
//!
//! * [`datasets`] — synthetic, laptop-scale proxies for the paper's 15
//!   real-world graphs (Table 2), matched on graph type and degree regime.
//! * [`querygen`] — the paper's query generator: split vertices into the
//!   top-10%-by-degree set `V'` and the rest `V''`, sample `(s, t)` pairs
//!   per setting with `distance(s, t) <= 3` guaranteed.
//! * [`algorithms`] — one uniform interface over every competitor
//!   (generic DFS, BC-DFS, BC-JOIN, T-DFS, YEN-KSP, IDX-DFS, IDX-JOIN,
//!   PathEnum). Every one reports the library's
//!   [`RunReport`](pathenum::RunReport); the PathEnum rows also return
//!   the [`PhysicalPlan`](pathenum::PhysicalPlan) they ran, the one
//!   place method and index shape are read from.
//! * [`runner`] — per-query measurement with time limits (query time,
//!   throughput, response time) through a per-path
//!   [`ControlledSink`](pathenum::ControlledSink), plus the aggregation
//!   helpers the tables and figures need (means, percentiles, CDFs,
//!   log-log regression).
//! * [`serving`] — the open-loop overload driver over the
//!   admission-controlled [`CatalogService`](pathenum::CatalogService),
//!   the harness behind `reproduce overload`.

pub mod algorithms;
pub mod datasets;
pub mod querygen;
pub mod runner;
pub mod serving;

pub use algorithms::Algorithm;
pub use querygen::{generate_queries, QueryGenConfig, QuerySetting};
pub use runner::{run_query, MeasureConfig, QueryMeasurement};
pub use serving::{run_overload, OverloadReport};
