//! Property tests for the join executor and the plan spectrum: every cut
//! position of IDX-JOIN and every left-deep plan must produce exactly
//! the IDX-DFS result set, and the relations-based evaluation (Theorem
//! 3.1) must agree too.

use proptest::prelude::*;

use pathenum_repro::core::enumerate::{idx_dfs, idx_join};
use pathenum_repro::core::relations::Relations;
use pathenum_repro::core::spectrum::{all_left_deep_plans, execute_left_deep};
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
    (4u32..12).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..50);
        (Just(n), edges)
    })
}

fn dfs_paths(index: &Index) -> Vec<Vec<VertexId>> {
    let mut sink = CollectingSink::default();
    let mut counters = Counters::default();
    idx_dfs(index, &mut sink, &mut counters);
    sink.sorted_paths()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_cut_position_agrees_with_dfs(
        (n, edges) in arb_graph(),
        k in 2u32..6,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let index = Index::build(&g, q);
        let expected = dfs_paths(&index);
        for cut in 1..k {
            let mut sink = CollectingSink::default();
            let mut counters = Counters::default();
            idx_join(&index, cut, &mut sink, &mut counters);
            prop_assert_eq!(sink.sorted_paths(), expected.clone(), "cut {}", cut);
        }
    }

    #[test]
    fn every_left_deep_plan_agrees_with_dfs(
        (n, edges) in arb_graph(),
        k in 2u32..5,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let index = Index::build(&g, q);
        let expected = dfs_paths(&index);
        let backward = index.backward_table();
        for plan in all_left_deep_plans(k) {
            let mut sink = CollectingSink::default();
            let mut counters = Counters::default();
            execute_left_deep(&index, &backward, &plan, &mut sink, &mut counters);
            prop_assert_eq!(
                sink.sorted_paths(), expected.clone(),
                "plan {:?}", plan
            );
        }
    }

    #[test]
    fn relations_evaluation_agrees_with_dfs(
        (n, edges) in arb_graph(),
        k in 2u32..5,
    ) {
        // Theorem 3.1 end-to-end: evaluating the (reduced) chain join and
        // filtering duplicate-vertex tuples yields P(s, t, k, G).
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let index = Index::build(&g, q);
        let expected = dfs_paths(&index);
        let rel = Relations::build_reduced(&g, q);
        let mut sink = CollectingSink::default();
        rel.evaluate(&mut sink);
        prop_assert_eq!(sink.sorted_paths(), expected);
    }

    #[test]
    fn join_respects_early_stop(
        (n, edges) in arb_graph(),
        k in 2u32..6,
        limit in 1u64..5,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let index = Index::build(&g, q);
        let total = dfs_paths(&index).len() as u64;
        let mut sink = ControlledSink::new(CountingSink::default(), Some(limit), None, None);
        let mut counters = Counters::default();
        idx_join(&index, (k / 2).max(1).min(k - 1), &mut sink, &mut counters);
        prop_assert_eq!(sink.emitted(), total.min(limit));
    }
}
