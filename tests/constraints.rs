//! Property tests for the Appendix E constraint extensions: each
//! constrained enumeration must equal brute-force enumeration followed
//! by post-filtering.

use proptest::prelude::*;

use pathenum_repro::core::reference::brute_force_paths;
use pathenum_repro::prelude::*;

fn graph_from_edges(n: u32, edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new(n as usize);
    for &(u, v) in edges {
        if u != v {
            b.add_edge(u, v).expect("in-range edge");
        }
    }
    b.finish()
}

fn arb_graph() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (4u32..14).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..60);
        (Just(n), edges)
    })
}

/// Deterministic pseudo-weight per edge in 0..8.
fn weight(u: u32, v: u32) -> u64 {
    (u64::from(u) << 32 | u64::from(v)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 61
}

/// Deterministic binary label per edge.
fn label(u: u32, v: u32) -> u32 {
    (((u64::from(u) << 32 | u64::from(v)).wrapping_mul(0xd134_2543_de82_ef95) >> 63) & 1) as u32
}

fn all_paths(g: &CsrGraph, q: Query) -> Vec<Vec<VertexId>> {
    let mut sink = CollectingSink::default();
    brute_force_paths(g, q, &mut sink);
    sink.paths
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn predicate_constraint_equals_post_filter(
        (n, edges) in arb_graph(),
        k in 2u32..6,
        threshold in 0u64..8,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let pred = |u: u32, v: u32| weight(u, v) >= threshold;
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let request = QueryRequest::from_query(q).predicate(pred).collect_paths(true);
        let mut constrained = engine.execute(&request).expect("valid query").paths;
        constrained.sort_unstable();
        let mut expected: Vec<Vec<VertexId>> = all_paths(&g, q)
            .into_iter()
            .filter(|p| p.windows(2).all(|w| pred(w[0], w[1])))
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(constrained, expected);
    }

    #[test]
    fn accumulative_constraint_equals_post_filter(
        (n, edges) in arb_graph(),
        k in 2u32..6,
        threshold in 0u64..20,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let index = Index::build(&g, q);
        let acc_query = AccumulativeQuery {
            identity: 0u64,
            combine: |a, b| a + b,
            weight,
            check: move |&total: &u64| total >= threshold,
            prune: None,
        };
        let mut constrained = CollectingSink::default();
        let mut counters = Counters::default();
        accumulative_dfs(&index, &acc_query, &mut constrained, &mut counters);
        let mut expected: Vec<Vec<VertexId>> = all_paths(&g, q)
            .into_iter()
            .filter(|p| p.windows(2).map(|w| weight(w[0], w[1])).sum::<u64>() >= threshold)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(constrained.sorted_paths(), expected);
    }

    #[test]
    fn monotone_prune_does_not_change_results(
        (n, edges) in arb_graph(),
        k in 2u32..6,
        cap in 1u64..20,
    ) {
        // "Sum of non-negative weights <= cap" admits the sound prune of
        // Appendix E; with and without it must agree.
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let index = Index::build(&g, q);
        let run = |prune: Option<fn(&u64) -> bool>| {
            let acc_query = AccumulativeQuery {
                identity: 0u64,
                combine: |a, b| a + b,
                weight,
                check: move |&total: &u64| total <= cap,
                prune,
            };
            let mut sink = CollectingSink::default();
            let mut counters = Counters::default();
            accumulative_dfs(&index, &acc_query, &mut sink, &mut counters);
            sink.sorted_paths()
        };
        // The closure-to-fn-pointer prune needs the cap statically; use a
        // generous static bound plus the exact final check instead.
        let without = run(None);
        static CAP_HOLDER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        CAP_HOLDER.store(cap, std::sync::atomic::Ordering::Relaxed);
        fn prune(total: &u64) -> bool {
            *total <= CAP_HOLDER.load(std::sync::atomic::Ordering::Relaxed)
        }
        let with = run(Some(prune));
        prop_assert_eq!(with, without);
    }

    #[test]
    fn automaton_constraint_equals_post_filter(
        (n, edges) in arb_graph(),
        k in 2u32..6,
    ) {
        // Automaton accepting label sequences with an even number of 1s.
        let mut automaton = Automaton::new(2, 2, 0).expect("valid shape");
        automaton.add_transition(0, 0, 0).expect("in range");
        automaton.add_transition(0, 1, 1).expect("in range");
        automaton.add_transition(1, 0, 1).expect("in range");
        automaton.add_transition(1, 1, 0).expect("in range");
        automaton.set_accepting(0).expect("in range");

        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let index = Index::build(&g, q);
        let mut constrained = CollectingSink::default();
        let mut counters = Counters::default();
        automaton_dfs(&index, &automaton, label, &mut constrained, &mut counters);
        let mut expected: Vec<Vec<VertexId>> = all_paths(&g, q)
            .into_iter()
            .filter(|p| {
                p.windows(2).map(|w| label(w[0], w[1])).filter(|&l| l == 1).count() % 2 == 0
            })
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(constrained.sorted_paths(), expected);
    }
}

#[test]
fn proptest_runs_are_deterministic_smoke() {
    // Pin one concrete case so failures here are easy to bisect.
    let g = graph_from_edges(5, &[(0, 2), (2, 1), (0, 3), (3, 2), (2, 3), (3, 1)]);
    let q = Query::new(0, 1, 3).unwrap();
    // 0-2-1, 0-3-1, 0-2-3-1, 0-3-2-1.
    assert_eq!(all_paths(&g, q).len(), 4);
}
