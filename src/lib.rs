//! Umbrella crate for the PathEnum reproduction workspace.
//!
//! Re-exports the public API of every member crate so examples and
//! integration tests can use one import root:
//!
//! * [`graph`] — the directed-graph substrate (`pathenum-graph`);
//! * [`core`] — the PathEnum algorithm itself (`pathenum`);
//! * [`baselines`] — competing algorithms (`pathenum-baselines`);
//! * [`workloads`] — datasets, query generation, measurement
//!   (`pathenum-workloads`).
//!
//! See the README for a tour and `examples/` for runnable entry points.

pub use pathenum as core;
pub use pathenum_baselines as baselines;
pub use pathenum_graph as graph;
pub use pathenum_workloads as workloads;

/// Convenience re-exports of the most common types.
pub mod prelude {
    pub use pathenum::constraints::{
        accumulative_dfs, automaton_dfs, AccumulativeQuery, Automaton,
    };
    pub use pathenum::sink::{CollectingSink, CountingSink, PathSink, SearchControl};
    pub use pathenum::{
        AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionStats, CacheOutcome,
        CacheStats, CancelToken, CatalogConfig, CatalogOutcome, CatalogRequest, CatalogService,
        CatalogTicket, CompactBits, ControlledSink, Counters, DenseBits, DynamicEngine,
        GraphCatalog, Index, Lane, Method, PathBuffer, PathEnumConfig, PathEnumError, PathStream,
        PhysicalPlan, PlanCache, Query, QueryEngine, QueryRequest, QueryResponse, ResultCache,
        RunReport, Termination,
    };
    pub use pathenum_graph::{
        CsrGraph, DynamicGraph, FrozenGraph, GraphBuilder, GraphHandle, GraphSnapshot,
        GraphVersion, NeighborAccess, OverlayView, VertexId,
    };
    pub use pathenum_workloads::{Algorithm, MeasureConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_pipeline() {
        let mut b = GraphBuilder::new(3);
        b.add_edges([(0, 1), (1, 2), (0, 2)]).unwrap();
        let g = b.finish();
        let mut sink = CollectingSink::default();
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let request = QueryRequest::from_query(Query::new(0, 2, 2).unwrap());
        let report = engine.execute_into(&request, &mut sink).unwrap().report;
        assert_eq!(report.counters.results, 2);
        assert_eq!(sink.paths.len(), 2);
    }

    #[test]
    fn prelude_exposes_the_request_api() {
        let mut b = GraphBuilder::new(3);
        b.add_edges([(0, 1), (1, 2), (0, 2)]).unwrap();
        let g = b.finish();
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let response = engine
            .execute(&QueryRequest::paths(0, 2).max_hops(2).collect_paths(true))
            .unwrap();
        assert_eq!(response.termination, Termination::Completed);
        assert_eq!(response.paths.len(), 2);
    }
}
