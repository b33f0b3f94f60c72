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
//!   most new edges close no cycle) skip the entire per-query build: a
//!   caller asks [`GlobalIndexedGraph::may_have_results`] before it hands
//!   the request to an engine.
//! * **Exact distance without enumeration**: callers that only need the
//!   shortest length (the admission rule of the query generator, risk
//!   triage before a full enumeration) query the oracle directly.
//!
//! The oracle maintains *global* distances, so it can only prove
//! emptiness, never non-emptiness of the constrained problem — the
//! per-query index remains the authority once a query passes the filter.

use pathenum_graph::{CsrGraph, DistanceOracle};

use crate::query::Query;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::test_support::*;
    use crate::reference::count_paths;
    use pathenum_graph::generators::erdos_renyi;

    #[test]
    fn oracle_filter_matches_direct_evaluation() {
        let g = erdos_renyi(40, 120, 8);
        let indexed = GlobalIndexedGraph::new(g.clone());
        for t in 1..20u32 {
            let q = Query::new(0, t, 4).unwrap();
            let results = count_paths(&g, q);
            assert!(indexed.may_have_results(q) || results == 0, "t={t}");
        }
    }

    #[test]
    fn provably_empty_queries_have_no_results() {
        let g = figure1_graph();
        let indexed = GlobalIndexedGraph::new(g.clone());
        // v7 (vertex 9) has no in-edges: q(s, v7, k) is empty.
        let q = Query::new(S, V[7], 6).unwrap();
        assert!(!indexed.may_have_results(q));
        assert_eq!(count_paths(&g, q), 0);
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
