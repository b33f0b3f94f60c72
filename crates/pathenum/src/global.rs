//! Global-index acceleration (the paper's Section 7.5 discussion).
//!
//! PathEnum builds its light-weight index from scratch per query, which
//! on very large graphs is dominated by the boundary distance search.
//! The paper's proposed direction is a *global* index built once offline
//! that serves all queries. This module provides that layer on top of
//! the [`pathenum_graph::pll`] pruned-landmark-labeling oracle:
//!
//! * **Existence filtering**: `d(s, t) > k` proves the query empty in
//!   O(label) time — no BFS, no index. Workloads that mix reachable and
//!   unreachable endpoint pairs (e.g. streaming cycle detection, where
//!   most new edges close no cycle) skip the entire per-query build.
//! * **Exact distance without enumeration**: callers that only need the
//!   shortest length (the admission rule of the query generator, risk
//!   triage before a full enumeration) query the oracle directly.
//!
//! The oracle maintains *global* distances, so it can only prove
//! emptiness, never non-emptiness of the constrained problem — the
//! per-query index remains the authority once a query passes the filter.

use pathenum_graph::{CsrGraph, DistanceOracle};

use crate::optimizer::{path_enum, PathEnumConfig};
use crate::query::Query;
use crate::request::PathEnumError;
use crate::sink::PathSink;
use crate::stats::{Counters, Method, PhaseTimings, RunReport};

/// A graph paired with its offline distance oracle.
#[derive(Debug, Clone)]
pub struct GlobalIndexedGraph {
    graph: CsrGraph,
    oracle: DistanceOracle,
}

impl GlobalIndexedGraph {
    /// Builds the oracle for `graph` (offline preprocessing; one pruned
    /// BFS pair per vertex in degree order).
    pub fn new(graph: CsrGraph) -> GlobalIndexedGraph {
        let oracle = DistanceOracle::build(&graph);
        GlobalIndexedGraph { graph, oracle }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The distance oracle.
    pub fn oracle(&self) -> &DistanceOracle {
        &self.oracle
    }

    /// Whether `query` can possibly have results: `d(s, t) <= k`.
    pub fn may_have_results(&self, query: Query) -> bool {
        self.oracle.within(query.s, query.t, query.k)
    }

    /// Runs PathEnum with the oracle as a pre-filter: provably empty
    /// queries return immediately with an all-zero report.
    pub fn path_enum(
        &self,
        query: Query,
        config: PathEnumConfig,
        sink: &mut dyn PathSink,
    ) -> Result<RunReport, PathEnumError> {
        query.validate(self.graph.num_vertices())?;
        if !self.may_have_results(query) {
            return Ok(RunReport {
                method: Method::IdxDfs,
                timings: PhaseTimings::default(),
                counters: Counters::default(),
                preliminary_estimate: Some(0),
                full_estimate: Some(0),
                t_dfs: None,
                t_join: None,
                cut_position: None,
                index_bytes: 0,
                index_edges: 0,
                cache: crate::plan::CacheOutcome::Bypass,
            });
        }
        path_enum(&self.graph, query, config, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::test_support::*;
    use crate::sink::{CollectingSink, CountingSink};
    use pathenum_graph::generators::erdos_renyi;

    #[test]
    fn oracle_filter_matches_direct_evaluation() {
        let g = erdos_renyi(40, 120, 8);
        let indexed = GlobalIndexedGraph::new(g.clone());
        for t in 1..20u32 {
            let q = Query::new(0, t, 4).unwrap();
            let mut direct = CollectingSink::default();
            path_enum(&g, q, PathEnumConfig::default(), &mut direct).unwrap();
            let mut filtered = CollectingSink::default();
            indexed
                .path_enum(q, PathEnumConfig::default(), &mut filtered)
                .unwrap();
            assert_eq!(direct.sorted_paths(), filtered.sorted_paths(), "t={t}");
        }
    }

    #[test]
    fn provably_empty_queries_short_circuit() {
        let g = figure1_graph();
        let indexed = GlobalIndexedGraph::new(g);
        // v7 (vertex 9) has no in-edges: q(s, v7, k) is empty.
        let q = Query::new(S, V[7], 6).unwrap();
        assert!(!indexed.may_have_results(q));
        let mut sink = CountingSink::default();
        let report = indexed
            .path_enum(q, PathEnumConfig::default(), &mut sink)
            .unwrap();
        assert_eq!(sink.count, 0);
        assert_eq!(report.index_edges, 0);
        assert_eq!(report.timings.total(), std::time::Duration::ZERO);
    }

    #[test]
    fn distance_filter_respects_k() {
        let mut b = pathenum_graph::GraphBuilder::new(5);
        b.add_edges([(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let indexed = GlobalIndexedGraph::new(b.finish());
        assert!(indexed.may_have_results(Query::new(0, 4, 4).unwrap()));
        assert!(!indexed.may_have_results(Query::new(0, 4, 3).unwrap()));
    }
}
