//! Edge-predicate constraints: paths whose every edge satisfies `f_p`.
//!
//! Per Appendix E, a predicate query is evaluated by conceptually applying
//! the predicate to `G` before enumeration; the surviving subgraph's paths
//! are exactly the constrained results. A request carrying
//! [`QueryRequest::predicate`](crate::QueryRequest::predicate) has its
//! planner materialize the filtered graph (an `O(|V| + |E|)` copy) and
//! build the request's index on it; estimation, the method decision and
//! enumeration then run on that index unchanged.

use pathenum_graph::{CsrGraph, GraphBuilder, NeighborAccess, VertexId};

/// The subgraph of `graph` keeping exactly the edges where
/// `predicate(from, to)` holds.
///
/// Accepts any [`NeighborAccess`] source (a `CsrGraph` or a dynamic
/// graph's overlay view); the result is always a materialized
/// `CsrGraph`, since predicate evaluation is a one-shot `O(|E|)` pass
/// either way.
pub fn filtered_graph<G, F>(graph: &G, mut predicate: F) -> CsrGraph
where
    G: NeighborAccess,
    F: FnMut(VertexId, VertexId) -> bool,
{
    let mut builder = GraphBuilder::new(graph.num_vertices());
    for from in 0..graph.num_vertices() as VertexId {
        graph.for_each_out(from, |to| {
            if predicate(from, to) {
                builder
                    .add_edge(from, to)
                    .expect("edges of a valid graph stay valid");
            }
        });
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::test_support::*;
    use crate::query::Query;
    use crate::sink::CollectingSink;
    use crate::{PathEnumConfig, QueryEngine, QueryRequest};

    #[test]
    fn filtering_removes_offending_edges() {
        let g = figure1_graph();
        // Forbid the direct v0 -> t edge.
        let f = filtered_graph(&g, |from, to| !(from == V[0] && to == T));
        assert_eq!(f.num_edges(), g.num_edges() - 1);
        assert!(!f.has_edge(V[0], T));
        assert!(f.has_edge(S, V[0]));
    }

    /// What an engine answers for `q` under `predicate`, sorted.
    fn constrained_paths<F>(g: &CsrGraph, q: Query, predicate: F) -> Vec<Vec<VertexId>>
    where
        F: Fn(VertexId, VertexId) -> bool + Send + Sync + 'static,
    {
        let mut engine = QueryEngine::new(g, PathEnumConfig::default());
        let request = QueryRequest::from_query(q)
            .predicate(predicate)
            .collect_paths(true);
        let mut paths = engine.execute(&request).unwrap().paths;
        paths.sort_unstable();
        paths
    }

    #[test]
    fn constrained_enumeration_equals_post_filtering() {
        let g = figure1_graph();
        let q = Query::new(S, T, 4).unwrap();
        // Constraint: edges must not touch v2.
        let pred = |from: VertexId, to: VertexId| from != V[2] && to != V[2];

        let constrained = constrained_paths(&g, q, pred);

        let mut all = CollectingSink::default();
        crate::reference::brute_force_paths(&g, q, &mut all);
        let mut expected: Vec<Vec<VertexId>> = all
            .paths
            .into_iter()
            .filter(|p| p.windows(2).all(|w| pred(w[0], w[1])))
            .collect();
        expected.sort_unstable();
        assert_eq!(constrained, expected);
    }

    #[test]
    fn predicate_true_is_identity() {
        let g = figure1_graph();
        let q = Query::new(S, T, 4).unwrap();
        assert_eq!(constrained_paths(&g, q, |_, _| true).len(), 5);
    }
}
