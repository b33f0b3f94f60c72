//! Overlay execution must be indistinguishable from snapshot execution:
//! for random graphs and random update streams, a [`DynamicEngine`]
//! answering on the live overlay returns *path-for-path* identical
//! results (same set, same order) to a [`QueryEngine`] answering on
//! `snapshot()`, across enumeration methods, result limits, and thread
//! counts — and a plan cache carried across mutations (surgical
//! retention) never changes any answer.

use proptest::prelude::*;

use pathenum_repro::prelude::*;

fn graph_from_edges(n: u32, edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new(n as usize);
    for &(u, v) in edges {
        if u != v && u < n && v < n {
            b.add_edge(u, v).expect("in-range edge");
        }
    }
    b.finish()
}

fn apply_updates(dynamic: &mut DynamicGraph, n: u32, updates: &[(u32, u32, u32)]) {
    for &(u, v, op) in updates {
        if u >= n || v >= n {
            continue;
        }
        if op == 0 {
            dynamic.remove_edge(u, v);
        } else {
            dynamic.insert_edge(u, v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The acceptance matrix: methods (optimizer / forced DFS / forced
    /// JOIN) x limits (none / tight), on a mutated overlay vs its
    /// snapshot.
    #[test]
    fn overlay_equals_snapshot_across_methods_limits_threads(
        n in 5u32..14,
        base in proptest::collection::vec((0u32..14, 0u32..14), 0..60),
        updates in proptest::collection::vec((0u32..14, 0u32..14, 0u32..3), 0..30),
        k in 2u32..6,
    ) {
        let mut dynamic = DynamicGraph::new(graph_from_edges(n, &base));
        apply_updates(&mut dynamic, n, &updates);
        let snapshot = dynamic.snapshot();
        prop_assert_eq!(snapshot.num_edges(), dynamic.num_edges());

        let methods = [None, Some(Method::IdxDfs), Some(Method::IdxJoin)];
        let limits = [None, Some(3u64)];
        for (s, t) in [(0u32, 1u32), (1, n - 1)] {
            for method in methods {
                for limit in limits {
                        let request = || {
                            let mut r = QueryRequest::paths(s, t)
                                .max_hops(k)
                                .collect_paths(true);
                            if let Some(m) = method {
                                r = r.method(m);
                            }
                            if let Some(l) = limit {
                                r = r.limit(l);
                            }
                            r
                        };
                        let mut overlay_engine =
                            DynamicEngine::new(&dynamic, PathEnumConfig::default());
                        let from_overlay =
                            overlay_engine.execute(&request()).expect("valid query");
                        let mut snapshot_engine =
                            QueryEngine::new(&snapshot, PathEnumConfig::default());
                        let from_snapshot =
                            snapshot_engine.execute(&request()).expect("valid query");
                        prop_assert_eq!(
                            &from_overlay.paths,
                            &from_snapshot.paths,
                            "q({}, {}, {}) method={:?} limit={:?}",
                            s, t, k, method, limit
                        );
                        prop_assert_eq!(
                            from_overlay.num_results(),
                            from_snapshot.num_results()
                        );
                        prop_assert_eq!(
                            from_overlay.report.method,
                            from_snapshot.report.method,
                            "same index must yield the same plan"
                        );
                        prop_assert_eq!(
                            from_overlay.report.cut_position,
                            from_snapshot.report.cut_position
                        );
                }
            }
        }
    }

    /// Surgical retention soundness: a cache carried across an arbitrary
    /// interleaving of mutations and queries answers exactly like a
    /// cache-free engine at every step — retained entries never leak a
    /// stale result.
    #[test]
    fn retained_cache_never_serves_stale_results(
        n in 4u32..10,
        base in proptest::collection::vec((0u32..10, 0u32..10), 0..30),
        script in proptest::collection::vec((0u32..4, 0u32..10, 0u32..10), 1..40),
        k in 2u32..5,
    ) {
        let mut dynamic = DynamicGraph::new(graph_from_edges(n, &base));
        let mut cache = PlanCache::default();
        let request = |s: u32, t: u32| {
            QueryRequest::paths(s, t).max_hops(k).collect_paths(true)
        };
        for (op, u, v) in script {
            match op {
                0 if u < n && v < n => {
                    dynamic.insert_edge(u, v);
                }
                1 if u < n && v < n => {
                    dynamic.remove_edge(u, v);
                }
                _ => {
                    // Query with the carried (possibly retained) cache...
                    let (s, t) = if op == 2 { (0, 1) } else { (u % n, v % n) };
                    if s == t {
                        continue;
                    }
                    let mut engine =
                        DynamicEngine::with_cache(&dynamic, PathEnumConfig::default(), cache);
                    let got = engine.execute(&request(s, t)).expect("valid query");
                    cache = engine.into_cache();
                    // ...and against a cache-free oracle on the same graph.
                    let mut oracle = DynamicEngine::with_cache(
                        &dynamic,
                        PathEnumConfig::default(),
                        PlanCache::new(0),
                    );
                    let expected = oracle.execute(&request(s, t)).expect("valid query");
                    prop_assert_eq!(
                        &got.paths,
                        &expected.paths,
                        "stale cache entry leaked for q({}, {}, {})",
                        s, t, k
                    );
                }
            }
        }
    }
}
