//! Snapshot-free querying of dynamic graphs.
//!
//! [`DynamicEngine`] is the [`QueryEngine`] bound to a [`DynamicGraph`]
//! itself rather than to a snapshot of one — graphs that change between
//! queries. Every request is evaluated directly on the graph's borrowed
//! [`OverlayView`](pathenum_graph::OverlayView) — the boundary BFS and
//! the per-query index build walk base CSR + delta adjacency in one
//! merged pass, so the update→query loop of the paper's streaming
//! scenario (Figure 8: fraud/cycle detection on transaction streams)
//! never pays the `O(n + m)` `snapshot()` the old pipeline required.
//!
//! It is the same engine driving the same request pipeline; what differs
//! is a property of the graph. A `DynamicGraph` offers its mutation log
//! ([`GraphSnapshot::mutation_log`](pathenum_graph::GraphSnapshot::mutation_log)),
//! so the engine's [`PlanCache`](crate::PlanCache) (and
//! [`ResultCache`](crate::ResultCache), when attached) is *surgically*
//! retained under mutation. Where a snapshot-bound engine must discard
//! every entry when the
//! [`GraphVersion`](pathenum_graph::GraphVersion) epoch advances, here a
//! stale entry is re-validated against the log: an entry whose recorded
//! reach footprint is provably disjoint from the delta keeps serving
//! (re-stamped, counted in
//! [`CacheStats::retained`](crate::CacheStats::retained)) —
//! mutations to one region of the graph no longer evict the whole
//! working set.
//!
//! ```
//! use pathenum::{DynamicEngine, PathEnumConfig, QueryRequest};
//! use pathenum_graph::{DynamicGraph, GraphBuilder};
//!
//! let mut b = GraphBuilder::new(5);
//! b.add_edges([(0, 1), (1, 2), (2, 3)]).unwrap();
//! let mut graph = DynamicGraph::new(b.finish());
//!
//! // Query, mutate, query again — no snapshot anywhere.
//! let request = QueryRequest::paths(0, 3).max_hops(4).collect_paths(true);
//! {
//!     let mut engine = DynamicEngine::new(&graph, PathEnumConfig::default());
//!     assert_eq!(engine.execute(&request).unwrap().paths, vec![vec![0, 1, 2, 3]]);
//! }
//! graph.insert_edge(0, 2);
//! let mut engine = DynamicEngine::new(&graph, PathEnumConfig::default());
//! assert_eq!(engine.execute(&request).unwrap().paths.len(), 2);
//! ```
//!
//! The engine holds a shared borrow of the graph, so mutations require
//! the engine to be dropped (or not yet created) — Rust's borrow rules
//! guarantee an engine never observes a half-applied update. For
//! update→query loops, carry the cache across engines with
//! [`into_cache`](QueryEngine::into_cache) /
//! [`with_cache`](QueryEngine::with_cache); retained entries survive
//! the trip.

use pathenum_graph::DynamicGraph;

use crate::engine::QueryEngine;

/// A PathEnum engine bound to a [`DynamicGraph`], evaluating requests on
/// the borrowed overlay with zero per-query materialization and
/// surgically retained caches. See the [module docs](self).
pub type DynamicEngine<'g> = QueryEngine<'g, DynamicGraph>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::PathEnumConfig;
    use crate::plan::CacheOutcome;
    use crate::request::{PathEnumError, QueryRequest, Termination};
    use crate::results::ResultCache;
    use crate::sink::CollectingSink;
    use pathenum_graph::{GraphBuilder, NeighborAccess};

    fn diamond_dynamic() -> DynamicGraph {
        let mut b = GraphBuilder::new(6);
        b.add_edges([(0, 1), (1, 3), (0, 2), (2, 3), (3, 4)])
            .unwrap();
        DynamicGraph::new(b.finish())
    }

    #[test]
    fn overlay_execution_matches_snapshot_execution() {
        let mut graph = diamond_dynamic();
        graph.insert_edge(4, 5);
        graph.insert_edge(0, 3);
        graph.remove_edge(1, 3);
        let request = QueryRequest::paths(0, 3).max_hops(3).collect_paths(true);

        let mut dynamic = DynamicEngine::new(&graph, PathEnumConfig::default());
        let from_overlay = dynamic.execute(&request).unwrap();

        let snapshot = graph.snapshot();
        let mut classic = QueryEngine::new(&snapshot, PathEnumConfig::default());
        let from_snapshot = classic.execute(&request).unwrap();

        assert_eq!(from_overlay.paths, from_snapshot.paths);
        assert_eq!(
            from_overlay.plan.unwrap().method,
            from_snapshot.plan.unwrap().method
        );
    }

    #[test]
    fn warm_hits_without_mutation() {
        let graph = diamond_dynamic();
        let mut engine = DynamicEngine::new(&graph, PathEnumConfig::default());
        let request = QueryRequest::paths(0, 3).max_hops(3);
        assert_eq!(
            engine.execute(&request).unwrap().report.cache,
            CacheOutcome::Miss
        );
        assert_eq!(
            engine.execute(&request).unwrap().report.cache,
            CacheOutcome::Hit
        );
        assert_eq!(engine.cache_stats().retained, 0);
        assert_eq!(engine.queries_served(), 2);
    }

    #[test]
    fn far_away_mutations_retain_cached_entries() {
        // 0 -> 1 -> 2 and an unrelated far component 4 <-> 5.
        let mut b = GraphBuilder::new(6);
        b.add_edges([(0, 1), (1, 2), (4, 5)]).unwrap();
        let mut graph = DynamicGraph::new(b.finish());
        let request = QueryRequest::paths(0, 2).max_hops(2).collect_paths(true);

        let mut engine = DynamicEngine::new(&graph, PathEnumConfig::default());
        let cold = engine.execute(&request).unwrap();
        assert_eq!(cold.report.cache, CacheOutcome::Miss);
        let cache = engine.into_cache();

        // Mutations touching only the far component.
        assert!(graph.insert_edge(5, 4));
        assert!(graph.remove_edge(4, 5));
        let mut engine = DynamicEngine::with_cache(&graph, PathEnumConfig::default(), cache);
        let warm = engine.execute(&request).unwrap();
        assert_eq!(warm.report.cache, CacheOutcome::Hit, "entry retained");
        assert_eq!(engine.cache_stats().retained, 1);
        assert_eq!(warm.paths, cold.paths);
    }

    #[test]
    fn relevant_mutations_invalidate_cached_entries() {
        let graph_edges = [(0u32, 1u32), (1, 2)];
        let mut b = GraphBuilder::new(4);
        b.add_edges(graph_edges).unwrap();
        let mut graph = DynamicGraph::new(b.finish());
        let request = QueryRequest::paths(0, 2).max_hops(3).collect_paths(true);

        let mut engine = DynamicEngine::new(&graph, PathEnumConfig::default());
        let before = engine.execute(&request).unwrap();
        assert_eq!(before.paths, vec![vec![0, 1, 2]]);
        let cache = engine.into_cache();

        // A new path 0 -> 3 -> 2 appears; the stale index must not be
        // served.
        assert!(graph.insert_edge(0, 3));
        assert!(graph.insert_edge(3, 2));
        let mut engine = DynamicEngine::with_cache(&graph, PathEnumConfig::default(), cache);
        let after = engine.execute(&request).unwrap();
        assert_eq!(after.report.cache, CacheOutcome::Miss);
        assert!(engine.cache_stats().invalidations >= 1);
        assert_eq!(after.paths.len(), 2);
        assert!(after.paths.contains(&vec![0, 3, 2]));
    }

    #[test]
    fn caches_never_retain_across_diverged_graph_clones() {
        // A and B share a prefix of history, then diverge. An entry
        // stamped against A must not be re-validated against B's
        // mutation log — B's log knows nothing of A's divergence, and
        // the "irrelevant delta" reasoning would silently serve A's
        // (stale, for B) results.
        let mut b = GraphBuilder::new(10);
        b.add_edges([(0, 1), (1, 2), (8, 9)]).unwrap();
        let mut a_graph = DynamicGraph::new(b.finish());
        let mut b_graph = a_graph.clone();
        assert_ne!(a_graph.lineage(), b_graph.lineage());

        // Diverge A inside the query region and stamp an entry there.
        assert!(a_graph.insert_edge(0, 2));
        let request = || QueryRequest::paths(0, 2).max_hops(3).collect_paths(true);
        let mut engine = DynamicEngine::new(&a_graph, PathEnumConfig::default());
        let on_a = engine.execute(&request()).unwrap();
        assert_eq!(on_a.paths.len(), 2, "A sees the direct edge");
        let cache = engine.into_cache();

        // Mutate B only far from the query; carry A's cache over.
        assert!(b_graph.insert_edge(9, 8));
        let mut engine = DynamicEngine::with_cache(&b_graph, PathEnumConfig::default(), cache);
        let on_b = engine.execute(&request()).unwrap();
        assert_eq!(
            on_b.report.cache,
            CacheOutcome::Miss,
            "foreign-lineage entry must not be retained"
        );
        assert_eq!(on_b.paths, vec![vec![0, 1, 2]], "B never had 0 -> 2");
    }

    #[test]
    fn result_entries_are_retained_across_irrelevant_mutations() {
        // 0 -> 1 -> 2 and an unrelated far component 4 <-> 5.
        let mut b = GraphBuilder::new(6);
        b.add_edges([(0, 1), (1, 2), (4, 5)]).unwrap();
        let mut graph = DynamicGraph::new(b.finish());
        let request = QueryRequest::paths(0, 2).max_hops(2).collect_paths(true);

        let mut engine = DynamicEngine::new(&graph, PathEnumConfig::default())
            .with_result_cache(ResultCache::default());
        let cold = engine.execute(&request).unwrap();
        assert_eq!(cold.report.cache, CacheOutcome::Miss);
        let results = engine.into_result_cache().unwrap();

        // Mutations touching only the far component.
        assert!(graph.insert_edge(5, 4));
        assert!(graph.remove_edge(4, 5));
        let mut engine =
            DynamicEngine::new(&graph, PathEnumConfig::default()).with_result_cache(results);
        let warm = engine.execute(&request).unwrap();
        assert_eq!(
            warm.report.cache,
            CacheOutcome::ResultHit,
            "answer retained across the irrelevant delta"
        );
        assert_eq!(warm.paths, cold.paths);
        let stats = engine.result_cache_stats();
        assert_eq!(stats.retained, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn result_entries_die_when_a_result_path_edge_is_removed() {
        let mut b = GraphBuilder::new(5);
        b.add_edges([(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut graph = DynamicGraph::new(b.finish());
        let request = QueryRequest::paths(0, 3).max_hops(3).collect_paths(true);

        let mut engine = DynamicEngine::new(&graph, PathEnumConfig::default())
            .with_result_cache(ResultCache::default());
        let before = engine.execute(&request).unwrap();
        assert_eq!(before.paths, vec![vec![0, 1, 2, 3]]);
        let results = engine.into_result_cache().unwrap();

        // (1, 2) sits on the only result path: the entry must die.
        assert!(graph.remove_edge(1, 2));
        let mut engine =
            DynamicEngine::new(&graph, PathEnumConfig::default()).with_result_cache(results);
        let after = engine.execute(&request).unwrap();
        assert_ne!(after.report.cache, CacheOutcome::ResultHit);
        assert!(after.paths.is_empty());
        assert_eq!(engine.result_cache_stats().invalidations, 1);
    }

    #[test]
    fn result_entries_die_only_when_insertions_touch_both_sides() {
        // 0 -> 1 -> 2 -> 3, spare vertices 4 and 5.
        let mut b = GraphBuilder::new(6);
        b.add_edges([(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut graph = DynamicGraph::new(b.finish());
        let request = QueryRequest::paths(0, 3).max_hops(4).collect_paths(true);

        let mut engine = DynamicEngine::new(&graph, PathEnumConfig::default())
            .with_result_cache(ResultCache::default());
        engine.execute(&request).unwrap();
        let results = engine.into_result_cache().unwrap();

        // Source-side-only insertion: no new s-t path can exist yet.
        assert!(graph.insert_edge(1, 4));
        let mut engine =
            DynamicEngine::new(&graph, PathEnumConfig::default()).with_result_cache(results);
        let warm = engine.execute(&request).unwrap();
        assert_eq!(warm.report.cache, CacheOutcome::ResultHit);
        assert_eq!(engine.result_cache_stats().retained, 1);
        let results = engine.into_result_cache().unwrap();

        // Now a target-side insertion completes the detour 1->4->2:
        // the sticky flags meet and the entry must die. The fresh run
        // finds the new path.
        assert!(graph.insert_edge(4, 2));
        let mut engine =
            DynamicEngine::new(&graph, PathEnumConfig::default()).with_result_cache(results);
        let after = engine.execute(&request).unwrap();
        assert_ne!(after.report.cache, CacheOutcome::ResultHit);
        assert_eq!(after.paths.len(), 2);
        assert!(after.paths.contains(&vec![0, 1, 4, 2, 3]));
    }

    #[test]
    fn explain_on_overlay_warms_the_cache() {
        let graph = diamond_dynamic();
        let mut engine = DynamicEngine::new(&graph, PathEnumConfig::default());
        let request = QueryRequest::paths(0, 3).max_hops(3);
        let plan = engine.explain(&request).unwrap();
        assert!(plan.index_vertices > 0);
        let response = engine.execute(&request).unwrap();
        assert_eq!(response.report.cache, CacheOutcome::Hit);
        assert_eq!(response.plan.unwrap().method, plan.method);
    }

    #[test]
    fn execute_into_streams_into_custom_sinks() {
        let graph = diamond_dynamic();
        let mut engine = DynamicEngine::new(&graph, PathEnumConfig::default());
        let mut sink = CollectingSink::default();
        let response = engine
            .execute_into(&QueryRequest::paths(0, 3).max_hops(3), &mut sink)
            .unwrap();
        assert_eq!(response.num_results(), 2);
        assert_eq!(sink.paths.len(), 2);
    }

    #[test]
    fn preflight_rules_apply_before_planning() {
        let graph = diamond_dynamic();
        let mut engine = DynamicEngine::new(&graph, PathEnumConfig::default());
        let response = engine
            .execute(&QueryRequest::paths(0, 3).max_hops(3).limit(0))
            .unwrap();
        assert_eq!(response.termination, Termination::LimitReached);
        let err = engine
            .execute(&QueryRequest::paths(0, 99).max_hops(3))
            .unwrap_err();
        assert_eq!(err, PathEnumError::VertexOutOfRange(99));
    }

    #[test]
    fn predicate_requests_run_on_the_filtered_overlay() {
        let mut graph = diamond_dynamic();
        graph.insert_edge(0, 3);
        let mut engine = DynamicEngine::new(&graph, PathEnumConfig::default());
        let response = engine
            .execute(
                &QueryRequest::paths(0, 3)
                    .max_hops(3)
                    .collect_paths(true)
                    .predicate(|_, to| to != 1),
            )
            .unwrap();
        let mut paths = response.paths;
        paths.sort_unstable();
        assert_eq!(paths, vec![vec![0, 2, 3], vec![0, 3]]);
    }

    #[test]
    fn view_is_consistent_while_engine_is_alive() {
        let graph = diamond_dynamic();
        let view = graph.view();
        let n = NeighborAccess::num_edges(&view);
        let mut engine = DynamicEngine::new(&graph, PathEnumConfig::default());
        engine
            .execute(&QueryRequest::paths(0, 3).max_hops(3))
            .unwrap();
        assert_eq!(NeighborAccess::num_edges(&view), n);
    }
}
