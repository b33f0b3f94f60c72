//! Property tests for the extended variants: the iterative DFS, the
//! HPI-style hot index, the YEN-KSP baseline's ordering guarantee, the
//! constraint join variants, and binary IO round-trips.

use proptest::prelude::*;

use pathenum_repro::baselines::hot_index::{hot_index_enumerate, HotIndex};
use pathenum_repro::baselines::yen_ksp;
use pathenum_repro::core::enumerate::{idx_dfs, idx_dfs_iterative};
use pathenum_repro::core::reference::brute_force_paths;
use pathenum_repro::graph::io_binary::{read_binary, write_binary};
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

fn reference(g: &CsrGraph, q: Query) -> Vec<Vec<VertexId>> {
    let mut sink = CollectingSink::default();
    brute_force_paths(g, q, &mut sink);
    sink.sorted_paths()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn iterative_dfs_matches_recursive_exactly(
        (n, edges) in arb_graph(),
        k in 2u32..7,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let index = Index::build(&g, q);
        let mut recursive_sink = CollectingSink::default();
        let mut recursive_counters = Counters::default();
        idx_dfs(&index, &mut recursive_sink, &mut recursive_counters);
        let mut iterative_sink = CollectingSink::default();
        let mut iterative_counters = Counters::default();
        idx_dfs_iterative(&index, &mut iterative_sink, &mut iterative_counters);
        prop_assert_eq!(recursive_sink.sorted_paths(), iterative_sink.sorted_paths());
        prop_assert_eq!(recursive_counters, iterative_counters);
    }

    #[test]
    fn hot_index_agrees_with_bruteforce(
        (n, edges) in arb_graph(),
        k in 2u32..6,
        hot_tenths in 0u32..=10,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let index = HotIndex::build(&g, f64::from(hot_tenths) / 10.0, k);
        let mut sink = CollectingSink::default();
        hot_index_enumerate(&g, &index, q, &mut sink);
        prop_assert_eq!(sink.sorted_paths(), reference(&g, q));
    }

    #[test]
    fn yen_emits_same_set_in_ascending_length_order(
        (n, edges) in arb_graph(),
        k in 2u32..6,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let mut sink = CollectingSink::default();
        yen_ksp(&g, q, &mut sink);
        let lengths: Vec<usize> = sink.paths.iter().map(Vec::len).collect();
        prop_assert!(lengths.windows(2).all(|w| w[0] <= w[1]), "not ascending: {:?}", lengths);
        prop_assert_eq!(sink.sorted_paths(), reference(&g, q));
    }

    #[test]
    fn constraint_join_variants_match_dfs_variants(
        (n, edges) in arb_graph(),
        k in 2u32..6,
        threshold in 0u64..15,
    ) {
        use pathenum_repro::core::constraints::{accumulative_join, AccumulativeQuery};
        use pathenum_repro::core::constraints::accumulative_dfs;
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let index = Index::build(&g, q);
        let weight = |u: u32, v: u32| u64::from((u ^ v) % 5);
        let acc = AccumulativeQuery {
            identity: 0u64,
            combine: |a, b| a + b,
            weight,
            check: move |&total: &u64| total >= threshold,
            prune: None,
        };
        let mut dfs_sink = CollectingSink::default();
        let mut counters = Counters::default();
        accumulative_dfs(&index, &acc, &mut dfs_sink, &mut counters);
        let expected = dfs_sink.sorted_paths();
        for cut in 1..k {
            let mut join_sink = CollectingSink::default();
            let mut join_counters = Counters::default();
            accumulative_join(&index, cut, &acc, &mut join_sink, &mut join_counters);
            prop_assert_eq!(join_sink.sorted_paths(), expected.clone(), "cut {}", cut);
        }
    }

    #[test]
    fn binary_io_roundtrips_arbitrary_graphs((n, edges) in arb_graph()) {
        let g = graph_from_edges(n, &edges);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).expect("in-memory write cannot fail");
        let back = read_binary(buf.as_slice()).expect("roundtrip");
        prop_assert_eq!(back.num_vertices(), g.num_vertices());
        prop_assert_eq!(back.edges().collect::<Vec<_>>(), g.edges().collect::<Vec<_>>());
    }

    #[test]
    fn query_engine_agrees_over_query_sequences(
        (n, edges) in arb_graph(),
        targets in proptest::collection::vec(1u32..14, 1..6),
        k in 2u32..6,
    ) {
        let g = graph_from_edges(n, &edges);
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        for t in targets {
            prop_assume!(t < n);
            let Ok(q) = Query::new(0, t, k) else { continue };
            let mut engine_sink = CollectingSink::default();
            engine
                .execute_into(&QueryRequest::from_query(q), &mut engine_sink)
                .expect("valid");
            prop_assert_eq!(engine_sink.sorted_paths(), reference(&g, q));
        }
    }
}
